"""Spans around the gateway's layer entry points, installed from outside.

Nothing in the gateway knows about tracing: the wrappers replace module
functions and class methods at run time and restore them afterwards. Each
span records its name, wall start and end, parent span, thread and thread
CPU time. Spans live in preallocated arrays and are written out once, when
the traced window ends.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from array import array

# Layer entry points, in span-name order: (module path, attribute path, span name).
TARGETS = (
    ("telegw.mqtt.protocol", "read_packet", "mqtt.read_packet"),
    ("telegw.ingest", "parse_payload", "ingest.parse_payload"),
    ("telegw.pipeline", "to_line", "lineproto.to_line"),
    ("telegw.pipeline", "Pipeline.submit", "pipeline.submit"),
    ("telegw.pipeline", "Pipeline.submit_many", "pipeline.submit_many"),
    ("telegw.alerts", "AlertEngine.observe", "alerts.observe"),
    ("telegw.model", "ChangeFilter.observe", "filter.observe"),
    ("telegw.pipeline", "FileSink.write", "sink.write"),
    ("telegw.modbus.client", "ModbusClient.read_parameters", "modbus.read_parameters"),
    ("telegw.modbus.client", "ModbusClient.read_registers", "modbus.read_registers"),
    ("telegw.modbus.client", "ModbusClient.connect", "modbus.connect"),
    ("telegw.modbus.protocol", "RegisterCodec.decode", "modbus.decode"),
    ("telegw.bacnet.client", "BacnetClient.read_points", "bacnet.read_points"),
    ("telegw.bacnet.client", "BacnetClient.read_properties", "bacnet.read_properties"),
    ("telegw.bacnet.client", "BacnetClient.discover_objects", "bacnet.discover_objects"),
)
NAMES = tuple(t[2] for t in TARGETS)


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _size(result) -> int:
    """Work count recorded with a span: the number of items returned."""
    if isinstance(result, (list, str)):
        return len(result)
    return 0


class Tracer:
    """Fixed-capacity span store; spans past capacity are counted, not kept.

    The name column holds the index into NAMES plus one; zero marks a span
    still open when the window closed.
    """

    FIELDS = ("name", "start", "end", "parent", "tid", "cpu", "size")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.cols = {f: array("q", bytes(8 * capacity)) for f in self.FIELDS}
        self._next = itertools.count()
        self._tls = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        # (entity, parameter, timestamp, wall ns) of every point the filter emitted
        self.emits: list[tuple[str, str, int, int]] = []

    def wrap(self, name: str, fn):
        nid = NAMES.index(name) + 1
        cap = self.capacity
        nxt = self._next
        tls = self._tls
        c = self.cols
        c_name, c_start, c_end, c_parent = c["name"], c["start"], c["end"], c["parent"]
        c_tid, c_cpu, c_size = c["tid"], c["cpu"], c["size"]
        perf, tcpu, native_id = time.perf_counter_ns, time.thread_time_ns, threading.get_native_id
        emits = self.emits if name == "filter.observe" else None
        wall = time.time_ns

        def wrapper(*args, **kwargs):
            i = next(nxt)
            if i >= cap:
                return fn(*args, **kwargs)
            stack = tls.__dict__.setdefault("stack", [])
            c_parent[i] = stack[-1] if stack else -1
            stack.append(i)
            result = None
            c0 = tcpu()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf()
                c1 = tcpu()
                stack.pop()
                c_start[i] = t0
                c_end[i] = t1
                c_cpu[i] = c1 - c0
                c_tid[i] = native_id()
                if emits is not None:
                    if result is not None:
                        c_size[i] = 1
                        emits.append((result.entity_id, result.parameter, result.timestamp, wall()))
                elif name == "sink.write":
                    c_size[i] = len(args[1])
                else:
                    c_size[i] = _size(result)
                c_name[i] = nid  # written last: a span without a name never finished

        return wrapper

    def install(self) -> None:
        for module_path, attr_path, name in TARGETS:
            owner, attr = _resolve(module_path, attr_path)
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._installed.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    def finish(self) -> tuple[int, int]:
        """(spans kept, spans dropped past capacity); call after uninstall()."""
        taken = next(self._next)
        return min(taken, self.capacity), max(0, taken - self.capacity)

    def dump(self, path: str, n: int) -> None:
        """Write the first n spans as one array per field."""
        with open(path, "wb") as f:
            for field in self.FIELDS:
                self.cols[field][:n].tofile(f)


def load_spans(path: str, n: int) -> dict[str, array]:
    cols = {}
    with open(path, "rb") as f:
        for field in Tracer.FIELDS:
            a = array("q")
            a.fromfile(f, n)
            cols[field] = a
    return cols


class WriteRecorder:
    """Notes when each sink write returned and how many lines it held.

    Installed in every run: latency is measured from a point's stamp to
    the return of the write that holds its line.
    """

    def __init__(self):
        self.done_ns = array("q")
        self.lines = array("q")

    def install(self) -> None:
        from telegw.pipeline import FileSink

        orig = FileSink.__dict__["write"]
        done_ns, lines, wall = self.done_ns, self.lines, time.time_ns

        def write(sink, batch):
            status = orig(sink, batch)
            done_ns.append(wall())
            lines.append(len(batch))
            return status

        FileSink.write = write

    def reset(self) -> None:
        del self.done_ns[:]
        del self.lines[:]

    def dump(self, path: str) -> None:
        with open(path, "wb") as f:
            array("q", [len(self.done_ns)]).tofile(f)
            self.done_ns.tofile(f)
            self.lines.tofile(f)


def load_writes(path: str) -> tuple[array, array]:
    with open(path, "rb") as f:
        n = array("q")
        n.fromfile(f, 1)
        done, lines = array("q"), array("q")
        done.fromfile(f, n[0])
        lines.fromfile(f, n[0])
    return done, lines


_CLK_TCK = os.sysconf("SC_CLK_TCK")


def thread_label(t: threading.Thread) -> str:
    target = getattr(t, "_target", None)
    return getattr(target, "__name__", None) or t.name


def thread_cpu_s() -> dict[int, tuple[str, float]]:
    """{native id: (label, CPU seconds)} from /proc/self/task/<id>/stat."""
    out = {}
    for t in threading.enumerate():
        tid = t.native_id
        if tid is None:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat", "rb") as f:
                data = f.read()
        except OSError:
            continue  # the thread ended between enumerate and open
        rest = data[data.rindex(b")") + 2:].split()
        out[tid] = (thread_label(t), (int(rest[11]) + int(rest[12])) / _CLK_TCK)
    return out


def busy_shares(before: dict, after: dict, wall_s: float) -> dict[str, float]:
    """Per label: summed CPU share of wall time of threads alive at both reads."""
    shares: dict[str, float] = {}
    for tid, (label, cpu1) in after.items():
        if tid in before:
            shares[label] = shares.get(label, 0.0) + (cpu1 - before[tid][1]) / wall_s
    return shares
