"""The gateway under test, in its own process, driven over stdin/stdout.

It loads a workload YAML with ``config.load_config`` and runs
``daemon.Gateway(cfg).start()`` exactly as ``gateway run`` does, into a file
sink. Each request is one JSON line on stdin; each reply one JSON line on
stdout. Usage: ``python3 gateway_proc.py <run dir>``.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from telegw.config import load_config  # noqa: E402
from telegw.daemon import Gateway  # noqa: E402

import tracing  # noqa: E402

SETUP_TIMEOUT_S = 20.0


def first_points_delivered(gw: Gateway) -> bool:
    """Every broker subscriber and every polled device has fed the pipeline."""
    subs = all(s.points_out > 0 for s in gw.subscribers)
    runs = gw.scheduler.job_runs
    polls = all(runs[d.id] > 0 for d in gw.config.modbus_devices + gw.config.bacnet_devices)
    return subs and polls


class Server:
    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.gw: Gateway | None = None
        self.recorder = tracing.WriteRecorder()
        self.recorder.install()
        self.tracer: tracing.Tracer | None = None

    # -- requests --------------------------------------------------------

    def setup(self, req: dict) -> dict:
        """Time config load until first delivery from every source, several times."""
        times = []
        for _ in range(req["cycles"]):
            t0 = time.perf_counter()
            gw = Gateway(load_config(req["config"])).start()
            try:
                while not first_points_delivered(gw):
                    if time.perf_counter() - t0 > SETUP_TIMEOUT_S:
                        raise RuntimeError("a source delivered nothing within the set-up timeout")
                    time.sleep(0.0002)
                times.append(time.perf_counter() - t0)
            finally:
                gw.stop()
        self.recorder.reset()
        return {"setup_s": times}

    def start(self, req: dict) -> dict:
        self.recorder.reset()
        self.gw = Gateway(load_config(req["config"])).start()
        return {}

    def sample(self, req: dict) -> dict:
        gw = self.gw
        doc = {
            "wall_ns": time.time_ns(),
            "cpu_s": time.process_time(),
            "counters": gw.pipeline.counters(),
            "parse_errors": sum(s.parse_errors for s in gw.subscribers),
            "scheduler": gw.metrics_snapshot()["scheduler"],
            "alert_events": gw.alert_engine.events_total,
            "threads": {str(k): v for k, v in tracing.thread_cpu_s().items()},
        }
        if req.get("series"):
            doc["series"] = sum(len(c.params) for c in gw.pipeline.rate_stats().entities.values())
        return doc

    def trace_on(self, req: dict) -> dict:
        self.tracer = tracing.Tracer(req["capacity"])
        self.tracer.install()
        # subscribers hold the bound submit they were built with; point them at the wrapper
        for sub in self.gw.subscribers:
            sub.out = self.gw.pipeline.submit
        return {}

    def trace_off(self, req: dict) -> dict:
        self.tracer.uninstall()
        for sub in self.gw.subscribers:
            sub.out = self.gw.pipeline.submit
        kept, dropped = self.tracer.finish()
        self.tracer.dump(str(self.run_dir / "spans.bin"), kept)
        emits_path = self.run_dir / "emits.json"
        emits_path.write_text(json.dumps(self.tracer.emits))
        self.tracer = None
        return {"spans": kept, "dropped": dropped}

    def stop(self, req: dict) -> dict:
        gw = self.gw
        gw.stop()
        health = gw.health_snapshot()
        self.recorder.dump(str(self.run_dir / "writes.bin"))
        return {
            "counters": gw.pipeline.counters(),
            "parse_errors": sum(s.parse_errors for s in gw.subscribers),
            "scheduler": gw.metrics_snapshot()["scheduler"],
            "device_failures": {k: v["consecutive_failures"] for k, v in health["devices"].items()},
            "alert_events": gw.alert_engine.events_total,
        }


def main(argv: list[str]) -> int:
    run_dir = Path(argv[1])
    logging.basicConfig(
        filename=str(run_dir / "gateway.log"),
        level=logging.WARNING,
        format="%(name)s %(message)s",
    )
    server = Server(run_dir)
    for text in sys.stdin:
        req = json.loads(text)
        try:
            reply = getattr(server, req["op"])(req)
            reply["ok"] = True
        except Exception as e:  # reported to run.py, which aborts the run
            logging.getLogger("perfbench").exception("request %s failed", req["op"])
            reply = {"ok": False, "error": f"{type(e).__name__}: {e}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if req["op"] == "stop":
            return 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
