"""Value generators and the shared simulation clock.

Every generator exposes ``step(now_ns) -> float``. Generators are seeded, so
a fixture replays identically run to run; nothing here reads the wall clock.
"""

from __future__ import annotations

import random
import threading
import time


class Constant:
    def __init__(self, value: float):
        self.value = float(value)

    def step(self, now_ns: int = 0) -> float:
        return self.value


class RandomWalk:
    """Bounded random walk that only moves when the change coin fires.

    When it does move, the step is guaranteed to actually change the value
    (direction flips inward at the clamp bounds), so change_prob is the
    probability a downstream change filter sees a new value.
    """

    def __init__(
        self,
        start: float,
        step: float,
        lo: float,
        hi: float,
        change_prob: float = 1.0,
        seed: int = 0,
        quantum: float = 0.0,
    ):
        if not lo <= start <= hi:
            raise ValueError(f"start {start} outside [{lo}, {hi}]")
        if step <= 0 or not 0 < change_prob <= 1:
            raise ValueError("step must be > 0 and change_prob in (0, 1]")
        self.value = float(start)
        self.step_size = float(step)
        self.lo, self.hi = float(lo), float(hi)
        self.change_prob = change_prob
        self.quantum = quantum
        self._rng = random.Random(seed)

    def step(self, now_ns: int = 0) -> float:
        if self._rng.random() >= self.change_prob:
            return self.value
        old = self.value
        for _ in range(8):
            delta = self._rng.uniform(0.25, 1.0) * self.step_size
            if self._rng.random() < 0.5:
                delta = -delta
            nxt = min(self.hi, max(self.lo, self.value + delta))
            if self.quantum > 0:
                nxt = round(nxt / self.quantum) * self.quantum
            if nxt != old:
                self.value = nxt
                return self.value
        # bounds plus quantization pinned us; force a one-quantum move inward
        q = self.quantum or self.step_size
        self.value = old - q if old + q > self.hi else old + q
        self.value = min(self.hi, max(self.lo, self.value))
        return self.value


class SimClock:
    """Shared fleet clock mapping simulated time onto the wall clock.

    In paced mode ``sleep_until`` really sleeps, compressed by ``compression``
    (60 means one simulated minute per wall second). In unpaced mode it just
    jumps, so days of traffic replay as fast as the consumer can take it.
    """

    def __init__(
        self,
        epoch_ns: int = 1_672_531_200_000_000_000,  # 2023-01-01T00:00:00Z
        compression: float = 60.0,
        paced: bool = True,
    ):
        if compression <= 0:
            raise ValueError("compression must be positive")
        self.epoch_ns = epoch_ns
        self.compression = compression
        self.paced = paced
        self._now_ns = epoch_ns
        self._lock = threading.Lock()

    def now_ns(self) -> int:
        with self._lock:
            return self._now_ns

    def sleep_until(self, target_ns: int) -> None:
        with self._lock:
            delta_ns = target_ns - self._now_ns
            if delta_ns <= 0:
                return
            self._now_ns = target_ns
        if self.paced:
            time.sleep(delta_ns / 1e9 / self.compression)
