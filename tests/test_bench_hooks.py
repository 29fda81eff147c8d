"""What the benchmark under perfbench/ reaches into the gateway for.

perfbench wraps layer entry points by name, reads the scheduler's counters
and labels thread busy time by thread target. A rename in the gateway breaks
none of its own tests, only a benchmark run; these tests break instead.
"""

import importlib
import importlib.util
import sys
import textwrap
import time
from pathlib import Path

from telegw.config import load_config
from telegw.daemon import Gateway
from telegw.modbus import RegisterCodec
from telegw.sim import ModbusSim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """A perfbench module under a name of its own; sys.path is left alone."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")


def _lookup(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return vars(owner)[attr]


def test_every_tracer_target_resolves_and_is_restored():
    before = [_lookup(m, a) for m, a, _ in tracing.TARGETS]
    tracer = tracing.Tracer(16)
    tracer.install()
    try:
        during = [_lookup(m, a) for m, a, _ in tracing.TARGETS]
    finally:
        tracer.uninstall()
    after = [_lookup(m, a) for m, a, _ in tracing.TARGETS]
    names = [t[2] for t in tracing.TARGETS]
    assert [n for n, b, d in zip(names, before, during) if d is b] == []
    assert [n for n, b, a in zip(names, before, after) if a is not b] == []


def test_polled_gateway_exposes_what_the_benchmark_reads(tmp_path):
    sim = ModbusSim(unit=1)
    sim.load_value(6, RegisterCodec("u32", scale=0.1), 230.4)
    config = tmp_path / "gw.yaml"
    with sim:
        config.write_text(
            textwrap.dedent(
                f"""
                gateway: {{health_port: 0, jitter: 0}}
                sink: {{mode: file, path: {tmp_path}/out.lp, batch_age_ms: 20}}
                devices:
                  - id: meter-1
                    protocol: modbus
                    host: 127.0.0.1
                    port: {sim.port}
                    interval_s: 0.05
                    registers:
                      - {{name: voltage_l1, addr: 6, dtype: u32, scale: 0.1}}
                """
            ),
            encoding="utf-8",
        )
        tracer = tracing.Tracer(4096)
        tracer.install()
        try:
            gw = Gateway(load_config(str(config))).start()
            try:
                deadline = time.monotonic() + 3
                while gw.scheduler.job_runs["meter-1"] < 2 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert gw.scheduler.job_runs["meter-1"] >= 2
                assert gw.scheduler.job_errors == {"meter-1": 0}
                scheduler = gw.metrics_snapshot()["scheduler"]
                assert scheduler["runs"]["meter-1"] >= 2
                assert scheduler["errors"] == {"meter-1": 0}
                assert gw.health_snapshot()["devices"]["meter-1"]["consecutive_failures"] == 0
                labels = [label for label, _ in tracing.thread_cpu_s().values()]
                assert {"_run_job", "serve_forever"} <= set(labels)
            finally:
                gw.stop()
        finally:
            tracer.uninstall()
    kept, _ = tracer.finish()
    spans = {tracing.NAMES[i - 1] for i in tracer.cols["name"][:kept] if i}
    assert {"modbus.read_parameters", "pipeline.submit_many", "pipeline.submit"} <= spans
