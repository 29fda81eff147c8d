"""Simulated MQTT sensor fleets with tunable change statistics.

Each simulated device publishes a JSON document on its own schedule. A
parameter keeps its previous value exactly unless its change coin fires,
so the post-dedup storage rate is emissions x change probability by
construction; ``solve_change_prob`` inverts that relation to hit a
target stored-points-per-hour figure. All randomness is seeded: the
same fleet seed replays byte-identical payload sequences.

A fleet's shape, :class:`DeviceClass` with its :class:`ParamSpec` list, is
defined in :mod:`telegw.config`, which parses it; it is imported here so
that the gateway itself never loads the simulators.
"""

from __future__ import annotations

import heapq
import json
import math
import random
import threading
from typing import Callable

from telegw.config import DeviceClass, ParamSpec
from telegw.sim.values import Constant, RandomWalk, SimClock


def solve_change_prob(
    target_points_per_hour: float, params_per_device: int, interval_s: float
) -> float:
    """Per-parameter change probability that makes one device store
    approximately target points/h after change-only filtering."""
    emissions_per_hour = 3600.0 / interval_s
    p = target_points_per_hour / (params_per_device * emissions_per_hour)
    if not 0.0 <= p <= 1.0:
        raise ValueError(
            f"target {target_points_per_hour}/h is unreachable at "
            f"{params_per_device} params every {interval_s} s"
        )
    return p


def aranet_class(count: int = 52, change_prob: float = 0.1185, interval_s: float = 60.0) -> DeviceClass:
    """A six-parameter CO2 monitor fleet publishing once a minute."""
    return DeviceClass(
        kind="aranet",
        count=count,
        interval_s=interval_s,
        change_prob=change_prob,
        parameters=(
            ParamSpec("co2", 400, 1200, 40, 1, 0),
            ParamSpec("temperature", 18, 26, 0.4, 0.1, 1),
            ParamSpec("humidity", 30, 60, 2, 1, 0),
            ParamSpec("pressure", 990, 1030, 0.6, 0.1, 1),
            ParamSpec("battery", 20, 100, 1, 1, 0),
            ParamSpec("rssi", -90, -40, 3, 1, 0),
        ),
    )


class SimDevice:
    def __init__(self, device_id: str, cls: DeviceClass, seed: int):
        self.device_id = device_id
        self.topic = cls.topic_template.format(kind=cls.kind, device_id=device_id)
        self._specs = cls.parameters
        self._models = {}
        for spec in cls.parameters:
            rng = random.Random(f"{seed}:{device_id}:{spec.name}")
            start = spec.lo + rng.random() * (spec.hi - spec.lo)
            start = round(round(start / spec.quantum) * spec.quantum, 12)
            if cls.change_prob == 0.0:
                self._models[spec.name] = Constant(start)
            else:
                self._models[spec.name] = RandomWalk(
                    start,
                    spec.step,
                    spec.lo,
                    spec.hi,
                    change_prob=cls.change_prob,
                    seed=rng.getrandbits(64),
                    quantum=spec.quantum,
                )

    def payload(self, ts_ns: int) -> bytes:
        doc = {}
        for spec in self._specs:
            v = self._models[spec.name].step(ts_ns)
            doc[spec.name] = int(round(v)) if spec.decimals == 0 else round(v, spec.decimals)
        doc["ts"] = ts_ns // 1_000_000_000
        return json.dumps(doc).encode("utf-8")


class MqttFleet:
    """Heap-scheduled fleet sharing one simulation clock. ``emit`` receives
    (topic, payload) for every publication; wire it to an MQTT client's
    publish or directly into a parser for transport-free runs."""

    def __init__(
        self,
        clock: SimClock,
        classes: list[DeviceClass],
        emit: Callable[[str, bytes], None],
        seed: int = 0,
    ):
        self.clock = clock
        self.emit = emit
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.emissions = 0
        self.devices: list[tuple[SimDevice, float]] = []
        for cls in classes:
            for i in range(cls.count):
                device = SimDevice(f"{cls.kind}-{i + 1:03d}", cls, seed)
                self.devices.append((device, cls.interval_s))

    def run(self, duration_s: float) -> int:
        """Emit everything scheduled inside the next duration_s simulated
        seconds (or until stop() for an infinite duration); blocks
        (wall-compressed) in paced mode."""
        t0 = self.clock.now_ns()
        t_end = None if math.isinf(duration_s) else t0 + int(duration_s * 1e9)
        heap: list[tuple[int, int]] = []
        for n, (device, interval_s) in enumerate(self.devices):
            stagger = random.Random(f"stagger:{device.device_id}").random()
            heapq.heappush(heap, (t0 + int(stagger * interval_s * 1e9), n))
        count = 0
        while heap and not self._stop.is_set():
            t, n = heapq.heappop(heap)
            if t_end is not None and t > t_end:
                break
            self.clock.sleep_until(t)
            device, interval_s = self.devices[n]
            self.emit(device.topic, device.payload(t))
            count += 1
            heapq.heappush(heap, (t + int(interval_s * 1e9), n))
        self.emissions += count
        return count

    def start(self, duration_s: float) -> "MqttFleet":
        self._stop.clear()
        self._thread = threading.Thread(target=self.run, args=(duration_s,), daemon=True)
        self._thread.start()
        return self

    @property
    def running(self) -> bool:
        t = self._thread
        return t is not None and t.is_alive()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
