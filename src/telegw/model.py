"""Domain types shared by every protocol module and the pipeline.

A reading is a :class:`DataPoint` carrying a typed :class:`Value`. Points are
immutable once constructed so they can cross thread boundaries freely; all
mutation lives in per-series state owned by :class:`ChangeFilter`.

One set of rules says what a valid point is; :func:`validate_datapoint`, the
pipeline's intake and :func:`telegw.lineproto.to_line` all apply it:

- the entity and the parameter are non-empty strings;
- no identifier, tag value or text value holds a line break;
- the value's kind is one of :data:`KINDS`;
- a real is a finite number, not a bool; a flag is a bool;
- a text is a string of at most :data:`MAX_TEXT_LEN` characters;
- tag keys and values are strings, and tag keys are non-empty;
- the timestamp is an int that fits line protocol's int64 nanoseconds.

Each rule raises one :class:`ModelError` subtype: ``NonFiniteValue``,
``EmptyIdentifier``, ``BadIdentifier`` (line breaks), ``TextTooLong``, or
``ModelError`` itself for a wrong type or kind. The checks are split by how
often the pipeline needs them: :func:`check_entity` once per entity and its
tags, :func:`check_reading` once per point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Mapping, Optional, Union

MAX_TEXT_LEN = 1024
# line protocol timestamps are int64; a sink answers 400 to the whole batch otherwise
TIMESTAMP_MIN, TIMESTAMP_MAX = -(2**63), 2**63 - 1

REAL = "real"
FLAG = "flag"
TEXT = "text"
KINDS = (REAL, FLAG, TEXT)


class ModelError(ValueError):
    """A value or point violates a model invariant."""


class NonFiniteValue(ModelError):
    pass


class BadIdentifier(ModelError):
    """A name or text that line protocol cannot carry."""


class EmptyIdentifier(BadIdentifier):
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


@dataclass(frozen=True, slots=True)
class DataPoint:
    """One observation of one parameter of one entity at one instant.

    ``timestamp`` is UTC nanoseconds. ``tags`` is an ordered mapping of
    static dimensions such as room or device model; a device's points share
    one mapping.
    """

    entity_id: str
    parameter: str
    value: Value
    unit: str = ""
    timestamp: int = 0
    tags: Mapping[str, str] = field(default_factory=dict)


def _check_breaks(s: str, what: str) -> None:
    if "\n" in s or "\r" in s:
        raise BadIdentifier(f"{what} cannot contain line breaks")


def check_identifier(s: str, what: str) -> None:
    """A non-empty string without line breaks."""
    if not isinstance(s, str):
        raise ModelError(f"{what} must be a string")
    if not s:
        raise EmptyIdentifier(f"{what} must be non-empty")
    _check_breaks(s, what)


def check_tags(tags: Mapping[str, str]) -> None:
    for k, v in tags.items():
        check_identifier(k, "tag key")
        if not isinstance(v, str):
            raise ModelError(f"tag {k!r} has non-string value")
        _check_breaks(v, f"tag {k!r}")


def _check_value(value: Value, what: str) -> None:
    if not isinstance(value, Value):
        raise ModelError(f"{what}: value must be a Value")
    kind, raw = value.kind, value.raw
    if kind == REAL:
        # Value.real always holds a float; only other payloads need the type test
        if raw.__class__ is not float and (
            isinstance(raw, bool) or not isinstance(raw, (int, float))
        ):
            raise ModelError(f"{what}: real value must be numeric")
        try:
            if isfinite(raw):
                return
        except OverflowError:  # an int beyond float range
            pass
        raise NonFiniteValue(f"{what}: value is {raw!r}")
    if kind == FLAG:
        if not isinstance(raw, bool):
            raise ModelError(f"{what}: flag value must be bool")
    elif kind == TEXT:
        if not isinstance(raw, str):
            raise ModelError(f"{what}: text value must be str")
        if len(raw) > MAX_TEXT_LEN:
            raise TextTooLong(f"{what}: text length {len(raw)} exceeds {MAX_TEXT_LEN}")
        _check_breaks(raw, f"{what}: text value")
    else:
        raise ModelError(f"{what}: value kind must be one of {KINDS}, got {kind!r}")


def check_entity(entity_id: str, tags: Mapping[str, str]) -> None:
    """The rules on what a device's points share: its id and its tags."""
    check_identifier(entity_id, "entity_id")
    check_tags(tags)


def check_reading(parameter: str, value: Value, timestamp: int) -> None:
    """The rules on what each point carries of its own."""
    check_identifier(parameter, "parameter")
    _check_value(value, parameter)
    if not isinstance(timestamp, int):
        raise ModelError(f"{parameter}: timestamp must be int nanoseconds")
    if not TIMESTAMP_MIN <= timestamp <= TIMESTAMP_MAX:
        raise ModelError(f"{parameter}: timestamp {timestamp} is outside int64")


def validate_datapoint(dp: DataPoint) -> None:
    """Raise the ModelError subtype of the first rule ``dp`` breaks (see the
    module docstring), or return None."""
    check_entity(dp.entity_id, dp.tags)
    check_reading(dp.parameter, dp.value, dp.timestamp)


@dataclass(slots=True)
class _SeriesState:
    kind: str
    raw: Union[float, bool, str]
    last_seen_ns: int
    last_emit_ns: int


class ChangeFilter:
    """Change-only emission with an optional heartbeat re-emission.

    Per (entity_id, parameter) series the filter remembers the last value,
    the last observation time, and the last emission time. An observation is
    emitted when it is the first for its series, when its value differs from
    the remembered one (exact equality, see :class:`Value`), or when at least
    ``heartbeat`` seconds of point time elapsed since the last emission.

    The state is keyed entity -> {parameter -> state}, so no key object is
    built or kept per series, and a series keeps its last value's kind and
    raw payload rather than the :class:`Value` itself. The change decision
    is the one ``Value.__eq__`` makes: kinds and payloads compared in turn,
    each equal when it is the same object or ``==`` says so (``-0.0`` equals
    ``0.0``, a real never equals a flag, a NaN object equals itself).

    Observations whose timestamp goes backwards relative to the series are
    dropped and counted in :attr:`regressions`; they never touch state.
    Observations suppressed because nothing changed are counted in
    :attr:`unchanged`, so every observation is either emitted or counted in
    one of the two.

    Not thread safe: the pipeline calls it only while holding its intake
    lock.
    """

    def __init__(self, heartbeat: float = 3600.0):
        if heartbeat < 0:
            raise ValueError("heartbeat must be >= 0 (0 disables re-emission)")
        self.heartbeat_ns = int(heartbeat * 1_000_000_000)
        self.regressions = 0
        self.unchanged = 0
        self._series: dict[str, dict[str, _SeriesState]] = {}

    def __len__(self) -> int:
        return sum(map(len, self._series.values()))

    def parameters(self, entity_id: str) -> set[str]:
        """The parameters of ``entity_id`` that have a series, as a new set."""
        return set(self._series.get(entity_id, ()))

    def observe(self, dp: DataPoint) -> Optional[DataPoint]:
        """Return dp if it should be persisted, else None."""
        params = self._series.get(dp.entity_id)
        if params is None:
            params = self._series[dp.entity_id] = {}
        value = dp.value
        st = params.get(dp.parameter)
        if st is None:
            params[dp.parameter] = _SeriesState(value.kind, value.raw, dp.timestamp, dp.timestamp)
            return dp
        if dp.timestamp < st.last_seen_ns:
            self.regressions += 1
            return None
        kind, raw = value.kind, value.raw
        changed = not (
            (kind is st.kind or kind == st.kind) and (raw is st.raw or raw == st.raw)
        )
        due = self.heartbeat_ns > 0 and dp.timestamp - st.last_emit_ns >= self.heartbeat_ns
        st.kind = kind
        st.raw = raw
        st.last_seen_ns = dp.timestamp
        if changed or due:
            st.last_emit_ns = dp.timestamp
            return dp
        self.unchanged += 1
        return None
