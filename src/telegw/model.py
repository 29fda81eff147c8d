"""Domain types shared by every protocol module and the pipeline.

A reading is a :class:`DataPoint` carrying a typed :class:`Value`. Points are
immutable once constructed so they can cross thread boundaries freely; all
mutation lives in per-series state owned by :class:`ChangeFilter`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

MAX_TEXT_LEN = 1024

REAL = "real"
FLAG = "flag"
TEXT = "text"
_KINDS = (REAL, FLAG, TEXT)


class ModelError(ValueError):
    """A value or point violates a model invariant."""


class NonFiniteValue(ModelError):
    pass


class EmptyIdentifier(ModelError):
    pass


class DuplicateTagKey(ModelError):
    pass


class TextTooLong(ModelError):
    pass


@dataclass(frozen=True, slots=True)
class Value:
    """A typed reading: a finite real, a boolean flag, or bounded text.

    Equality is exact. Two reals are equal only when ``==`` says so bit for
    bit; there is no epsilon. Values of different kinds never compare equal
    even when Python would coerce the raw payloads (1.0 vs True).
    """

    kind: str
    raw: Union[float, bool, str]

    @staticmethod
    def real(x: float) -> "Value":
        return Value(REAL, float(x))

    @staticmethod
    def flag(x: bool) -> "Value":
        return Value(FLAG, bool(x))

    @staticmethod
    def text(x: str) -> "Value":
        return Value(TEXT, str(x))

    def __str__(self) -> str:
        if self.kind == FLAG:
            return "true" if self.raw else "false"
        return str(self.raw)


TagMap = Union[Mapping[str, str], Iterable[tuple[str, str]]]


@dataclass(frozen=True, slots=True)
class DataPoint:
    """One observation of one parameter of one entity at one instant.

    ``timestamp`` is UTC nanoseconds. ``tags`` is an ordered mapping (or an
    iterable of pairs, normalized by :func:`tag_pairs`) of static dimensions
    such as room or device model.
    """

    entity_id: str
    parameter: str
    value: Value
    unit: str = ""
    timestamp: int = 0
    tags: TagMap = field(default_factory=dict)


def tag_pairs(tags: TagMap) -> list[tuple[str, str]]:
    """Normalize a tag mapping or pair iterable to a list of (key, value)."""
    if isinstance(tags, Mapping):
        return list(tags.items())
    return [(k, v) for k, v in tags]


def validate_datapoint(dp: DataPoint) -> None:
    """Raise a ModelError subtype naming the offending field, or return None.

    Checks: non-empty identifiers, finite reals, text length bound,
    tag key uniqueness, and string-typed tag keys/values.
    """
    if not isinstance(dp.entity_id, str) or not dp.entity_id:
        raise EmptyIdentifier("entity_id must be a non-empty string")
    if not isinstance(dp.parameter, str) or not dp.parameter:
        raise EmptyIdentifier(f"parameter must be a non-empty string (entity {dp.entity_id!r})")
    v = dp.value
    if not isinstance(v, Value) or v.kind not in _KINDS:
        raise ModelError(f"{dp.entity_id}/{dp.parameter}: value kind must be one of {_KINDS}")
    if v.kind == REAL:
        if isinstance(v.raw, bool) or not isinstance(v.raw, (int, float)):
            raise ModelError(f"{dp.entity_id}/{dp.parameter}: real value must be numeric")
        if not math.isfinite(v.raw):
            raise NonFiniteValue(f"{dp.entity_id}/{dp.parameter}: value is {v.raw!r}")
    elif v.kind == FLAG:
        if not isinstance(v.raw, bool):
            raise ModelError(f"{dp.entity_id}/{dp.parameter}: flag value must be bool")
    else:
        if not isinstance(v.raw, str):
            raise ModelError(f"{dp.entity_id}/{dp.parameter}: text value must be str")
        if len(v.raw) > MAX_TEXT_LEN:
            raise TextTooLong(
                f"{dp.entity_id}/{dp.parameter}: text length {len(v.raw)} exceeds {MAX_TEXT_LEN}"
            )
    seen: set[str] = set()
    for k, val in tag_pairs(dp.tags):
        if not isinstance(k, str) or not k:
            raise ModelError(f"{dp.entity_id}/{dp.parameter}: tag keys must be non-empty strings")
        if not isinstance(val, str):
            raise ModelError(f"{dp.entity_id}/{dp.parameter}: tag {k!r} has non-string value")
        if k in seen:
            raise DuplicateTagKey(f"{dp.entity_id}/{dp.parameter}: duplicate tag key {k!r}")
        seen.add(k)
    if not isinstance(dp.timestamp, int):
        raise ModelError(f"{dp.entity_id}/{dp.parameter}: timestamp must be int nanoseconds")


@dataclass(slots=True)
class _SeriesState:
    value: Value
    last_seen_ns: int
    last_emit_ns: int


class ChangeFilter:
    """Change-only emission with an optional heartbeat re-emission.

    Per (entity_id, parameter) series the filter remembers the last value,
    the last observation time, and the last emission time. An observation is
    emitted when it is the first for its series, when its value differs from
    the remembered one (exact equality, see :class:`Value`), or when at least
    ``heartbeat`` seconds of point time elapsed since the last emission.

    Observations whose timestamp goes backwards relative to the series are
    dropped and counted in :attr:`regressions`; they never touch state.

    Not thread safe: the pipeline calls it only while holding its intake
    lock.
    """

    def __init__(self, heartbeat: float = 3600.0):
        if heartbeat < 0:
            raise ValueError("heartbeat must be >= 0 (0 disables re-emission)")
        self.heartbeat_ns = int(heartbeat * 1_000_000_000)
        self.regressions = 0
        self._series: dict[tuple[str, str], _SeriesState] = {}

    def __len__(self) -> int:
        return len(self._series)

    def observe(self, dp: DataPoint) -> Optional[DataPoint]:
        """Return dp if it should be persisted, else None."""
        key = (dp.entity_id, dp.parameter)
        st = self._series.get(key)
        if st is None:
            self._series[key] = _SeriesState(dp.value, dp.timestamp, dp.timestamp)
            return dp
        if dp.timestamp < st.last_seen_ns:
            self.regressions += 1
            return None
        changed = dp.value != st.value
        due = self.heartbeat_ns > 0 and dp.timestamp - st.last_emit_ns >= self.heartbeat_ns
        st.value = dp.value
        st.last_seen_ns = dp.timestamp
        if changed or due:
            st.last_emit_ns = dp.timestamp
            return dp
        return None
